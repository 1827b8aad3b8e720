# Runs BENCH with each malformed command line below and requires exit
# status 2 (usage error) from every one.
#   cmake -DBENCH=path/to/bench -P tests/expect_usage_error.cmake
foreach(args "--min-ratio" "--min-ration;1000" "4;1;1;--min-ratio")
  execute_process(COMMAND ${BENCH} ${args} RESULT_VARIABLE rc
                  OUTPUT_QUIET ERROR_QUIET)
  if(NOT rc EQUAL 2)
    string(REPLACE ";" " " shown "${args}")
    message(FATAL_ERROR "${BENCH} ${shown}: exit ${rc}, want 2")
  endif()
endforeach()
