# ctest helper: runs a command and fails unless it exits with EXPECT_EXIT
# and its standard error matches the regex EXPECT_STDERR.
#
#   cmake -DCOMMAND_LINE="prog|arg1|arg2" -DEXPECT_EXIT=2 \
#         -DEXPECT_STDERR="usage:" -P expect_exit.cmake
#
# COMMAND_LINE separates arguments with '|' (a ';' list would be split by
# add_test before it got here).
string(REPLACE "|" ";" command "${COMMAND_LINE}")
execute_process(COMMAND ${command}
                RESULT_VARIABLE exit_code
                OUTPUT_QUIET
                ERROR_VARIABLE stderr)
if(NOT exit_code STREQUAL "${EXPECT_EXIT}")
  message(FATAL_ERROR
          "exit code ${exit_code}, expected ${EXPECT_EXIT}; stderr:\n${stderr}")
endif()
if(NOT stderr MATCHES "${EXPECT_STDERR}")
  message(FATAL_ERROR "stderr does not match '${EXPECT_STDERR}':\n${stderr}")
endif()
