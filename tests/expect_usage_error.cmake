# Runs PROGRAM with the space-separated ARGS and fails unless it exits 2 with
# EXPECT (the offending flag) in its stderr.
#
#   cmake -DPROGRAM=cgsim "-DARGS=crawl --json" -DEXPECT=--json -P this-file
separate_arguments(arg_list UNIX_COMMAND "${ARGS}")
execute_process(COMMAND "${PROGRAM}" ${arg_list}
                RESULT_VARIABLE code
                OUTPUT_QUIET
                ERROR_VARIABLE err)
if(NOT code EQUAL 2)
  message(FATAL_ERROR "${ARGS}: expected exit 2, got ${code}\n${err}")
endif()
string(FIND "${err}" "${EXPECT}" at)
if(at EQUAL -1)
  message(FATAL_ERROR "${ARGS}: stderr does not name ${EXPECT}\n${err}")
endif()
