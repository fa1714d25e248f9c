# Summarize a hostbench A/B log with tools/bench_compare.py
# --hostbench.
#
#   cmake -DTOOL=<bench_compare.py> -DLOG=<file> [-DFAIL_REGEX=<re>] \
#         -P hostbench_summary.cmake
#
# Without FAIL_REGEX the tool must exit 0 and print exactly the
# summary the log's own header states: its `# ` lines after
# `# Summary`, prefix stripped. With FAIL_REGEX it must exit 1 with
# output matching the regex.
execute_process(COMMAND python3 "${TOOL}" --hostbench "${LOG}"
                OUTPUT_VARIABLE actual ERROR_VARIABLE actual
                RESULT_VARIABLE status)
if(DEFINED FAIL_REGEX)
    if(NOT status EQUAL 1 OR NOT actual MATCHES "${FAIL_REGEX}")
        message(FATAL_ERROR "expected exit 1 matching '${FAIL_REGEX}', "
                            "got ${status}:\n${actual}")
    endif()
    return()
endif()
if(NOT status EQUAL 0)
    message(FATAL_ERROR "exit status ${status}:\n${actual}")
endif()
file(STRINGS "${LOG}" header REGEX "^# ")
set(expected "")
set(in_summary FALSE)
foreach(line IN LISTS header)
    if(in_summary)
        string(SUBSTRING "${line}" 2 -1 line)
        string(APPEND expected "${line}\n")
    elseif(line MATCHES "^# Summary")
        set(in_summary TRUE)
    endif()
endforeach()
if(NOT actual STREQUAL expected)
    message(FATAL_ERROR "summary differs from the header of ${LOG}:\n"
                        "${actual}\nexpected:\n${expected}")
endif()
