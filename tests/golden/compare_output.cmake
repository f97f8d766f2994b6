# Runs EXE with ARG and fails unless its standard output equals the file
# GOLDEN byte for byte.  On a mismatch the output is kept in ACTUAL.
#   cmake -DEXE=... -DARG=... -DGOLDEN=... -DACTUAL=... -P compare_output.cmake
execute_process(COMMAND ${EXE} ${ARG} OUTPUT_VARIABLE got RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${EXE} ${ARG} exited with ${rc}")
endif()
file(READ ${GOLDEN} want)
if(NOT got STREQUAL want)
  file(WRITE ${ACTUAL} "${got}")
  message(FATAL_ERROR "output differs from ${GOLDEN}; see ${ACTUAL}")
endif()
