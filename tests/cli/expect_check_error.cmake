# Runs a command line that must be rejected by SimulationConfig::validate():
# the process has to terminate within the timeout, exit unsuccessfully and
# name guess::CheckError on stderr (uncaught CheckError is the repo-wide way
# a CLI reports invalid input).
#
#   cmake -DCOMMAND="<exe>;<arg>;..." -P expect_check_error.cmake
execute_process(
  COMMAND ${COMMAND}
  RESULT_VARIABLE result
  OUTPUT_QUIET
  ERROR_VARIABLE err
  TIMEOUT 10)
if(result EQUAL 0)
  message(FATAL_ERROR "command succeeded, expected a CheckError: ${COMMAND}")
endif()
if(NOT err MATCHES "CheckError")
  message(FATAL_ERROR "no CheckError (result: ${result}) from ${COMMAND}\n${err}")
endif()
