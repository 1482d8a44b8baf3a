# Runs a bench with --check=<copy of a baseline> and no --out=, inside a
# scratch directory, and fails unless the copy's bytes are unchanged
# afterwards. With EXPECT_CHECK_ERROR=ON the run must also be rejected with
# guess::CheckError (name the copy like the bench's default --out file);
# with EXPECT_CHECK_FAILURE=ON it must run, compare against the copy and
# report the check FAILED; otherwise it must succeed.
#
#   cmake -DCOMMAND="<exe>;<arg>;..." -DBASELINE=<file> -DWORK_DIR=<dir>
#         -DCHECK_NAME=<file name>
#         [-DEXPECT_CHECK_ERROR=ON | -DEXPECT_CHECK_FAILURE=ON]
#         -P expect_baseline_untouched.cmake
file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}/copy")
file(COPY "${BASELINE}" DESTINATION "${WORK_DIR}/copy")
get_filename_component(base_name "${BASELINE}" NAME)
set(check_file "${WORK_DIR}/${CHECK_NAME}")
file(RENAME "${WORK_DIR}/copy/${base_name}" "${check_file}")
file(SHA256 "${check_file}" before)

execute_process(
  COMMAND ${COMMAND} "--check=${CHECK_NAME}"
  WORKING_DIRECTORY "${WORK_DIR}"
  RESULT_VARIABLE result
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err
  TIMEOUT 120)

file(SHA256 "${check_file}" after)
if(NOT before STREQUAL after)
  message(FATAL_ERROR "--check=${CHECK_NAME} rewrote its baseline: ${COMMAND}\n${out}")
endif()
if(EXPECT_CHECK_ERROR)
  if(result EQUAL 0 OR NOT err MATCHES "CheckError")
    message(FATAL_ERROR "no CheckError (result: ${result}) from ${COMMAND}\n${err}")
  endif()
elseif(EXPECT_CHECK_FAILURE)
  if(result EQUAL 0 OR err MATCHES "CheckError" OR
     NOT out MATCHES "check against ${CHECK_NAME}: FAILED")
    message(FATAL_ERROR "no failed check (result: ${result}) from ${COMMAND}\n${out}\n${err}")
  endif()
elseif(NOT result EQUAL 0)
  message(FATAL_ERROR "command failed (result: ${result}): ${COMMAND}\n${out}\n${err}")
endif()
