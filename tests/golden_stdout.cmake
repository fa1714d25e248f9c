# Run one figure/table bench and require exit status 0 and a stdout
# byte-identical to its tracked bench_results/ file.
#
#   cmake -DBENCH=<exe> -DEXPECTED=<file> -DACTUAL=<file> \
#         -P golden_stdout.cmake
execute_process(COMMAND "${BENCH}" OUTPUT_FILE "${ACTUAL}"
                RESULT_VARIABLE status)
if(NOT status EQUAL 0)
    message(FATAL_ERROR "${BENCH} exited with status ${status}")
endif()
execute_process(COMMAND "${CMAKE_COMMAND}" -E compare_files
                "${ACTUAL}" "${EXPECTED}" RESULT_VARIABLE differs)
if(differs)
    message(FATAL_ERROR "stdout differs from ${EXPECTED}; "
                        "see ${ACTUAL}")
endif()
