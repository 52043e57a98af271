# Runs one m3dfl_tool command for a ctest and checks its exit code and its
# output (stdout and stderr merged): every regex in EXPECT must match.
#
#   cmake -DTOOL=<m3dfl_tool> "-DARGS=<arg;...>" [-DEXPECT_RC=<code>]
#         "-DEXPECT=<regex;...>" -P cli_check.cmake
if(NOT DEFINED EXPECT_RC)
  set(EXPECT_RC 0)
endif()
execute_process(COMMAND ${TOOL} ${ARGS}
                RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE out)
if(NOT rc STREQUAL EXPECT_RC)
  message(FATAL_ERROR "exit code ${rc}, expected ${EXPECT_RC}; output:\n${out}")
endif()
foreach(re IN LISTS EXPECT)
  if(NOT out MATCHES "${re}")
    message(FATAL_ERROR "output does not match '${re}':\n${out}")
  endif()
endforeach()
