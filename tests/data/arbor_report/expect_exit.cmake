# Runs `arbor_report diff BASE CUR` and fails unless it exits with EXPECT:
#
#   cmake -DREPORT=path/to/arbor_report -DBASE=a.json -DCUR=b.json \
#         -DEXPECT=1 -P expect_exit.cmake
execute_process(COMMAND ${REPORT} diff ${BASE} ${CUR} RESULT_VARIABLE rc)
if(NOT rc EQUAL EXPECT)
  message(FATAL_ERROR
          "arbor_report diff ${BASE} ${CUR} exited ${rc}, expected ${EXPECT}")
endif()
