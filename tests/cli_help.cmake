# Run `wss <subcommand> --help` and require exit status 0, at least
# one flag line, and no sign that the subcommand ran: no result table,
# no campaign summary.
#
#   cmake -DWSS=<exe> -DCMD=<subcommand> -P cli_help.cmake
execute_process(COMMAND "${WSS}" "${CMD}" --help
                OUTPUT_VARIABLE out ERROR_VARIABLE err
                RESULT_VARIABLE status)
if(NOT status EQUAL 0)
    message(FATAL_ERROR "wss ${CMD} --help exited with status ${status}:\n"
                        "${out}${err}")
endif()
if(NOT out MATCHES "\n  --[a-z]")
    message(FATAL_ERROR "wss ${CMD} --help printed no flag:\n${out}")
endif()
if(out MATCHES "campaign:|\n\\+-" OR NOT err STREQUAL "")
    message(FATAL_ERROR "wss ${CMD} --help ran the subcommand:\n"
                        "${out}${err}")
endif()
