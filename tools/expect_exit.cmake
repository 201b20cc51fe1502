# Run EXE with the space-separated ARGS and require exit status EXPECT
# exactly; death by a signal is reported as a failure, not a pass.
#
#   cmake -DEXE=<program> -DARGS="<args>" -DEXPECT=<status> \
#         -P tools/expect_exit.cmake

separate_arguments(args UNIX_COMMAND "${ARGS}")
execute_process(COMMAND "${EXE}" ${args} RESULT_VARIABLE status)
if(NOT "${status}" STREQUAL "${EXPECT}")
    message(FATAL_ERROR
        "${EXE} ${ARGS}: expected exit status ${EXPECT}, got '${status}'")
endif()
