# Calibrate the `wss dcn` design pair at its defaults and require the
# profiles hostbench ships, byte for byte: the CLI, bench_dcn,
# bench_coll and hostbench share this one calibration.
#
#   cmake -DWSS=<wss> -DDIR=<scratch dir> -DSHIPPED=<profiles dir> \
#         -P shipped_profiles.cmake
file(REMOVE_RECURSE "${DIR}")
execute_process(COMMAND "${WSS}" dcn --calibrate --profiles "${DIR}"
                --hosts 64 --flows 100 --loads 0.5 --workloads websearch
                RESULT_VARIABLE status)
if(NOT status EQUAL 0)
    message(FATAL_ERROR "wss dcn exited with status ${status}")
endif()
foreach(name ws-8192 conv-64)
    execute_process(COMMAND "${CMAKE_COMMAND}" -E compare_files
                    "${DIR}/${name}.json" "${SHIPPED}/${name}.json"
                    RESULT_VARIABLE differs)
    if(differs)
        message(FATAL_ERROR "${DIR}/${name}.json differs from "
                            "${SHIPPED}/${name}.json")
    endif()
endforeach()
