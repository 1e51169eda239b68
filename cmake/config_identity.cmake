# Machine-description identity: a bench run with --config CONFIG must emit a
# trajectory byte-identical to the same run on its hard-coded machine —
# configs/paper4x4.conf IS the paper machine, down to the cache fingerprints.
#
# Arguments: BENCH (bench executable), CONFIG (description file),
#            TAG (scratch-file prefix), OUT_DIR (scratch directory),
#            LITERAL_ARGS (optional, space-separated flags that give the
#            hard-coded run the machine CONFIG describes, e.g.
#            "--mem hierarchy").
if(NOT TAG)
  set(TAG "config")
endif()
separate_arguments(literal_args UNIX_COMMAND "${LITERAL_ARGS}")
set(literal "${OUT_DIR}/${TAG}_literal.json")
set(described "${OUT_DIR}/${TAG}_described.json")

execute_process(COMMAND ${BENCH} --quick ${literal_args} --json ${literal}
                RESULT_VARIABLE rc1 OUTPUT_QUIET ERROR_VARIABLE err1)
if(NOT rc1 EQUAL 0)
  message(FATAL_ERROR "hard-coded bench run failed with ${rc1}: ${err1}")
endif()

execute_process(COMMAND ${BENCH} --quick --config ${CONFIG} --json ${described}
                RESULT_VARIABLE rc2 OUTPUT_QUIET ERROR_VARIABLE err2)
if(NOT rc2 EQUAL 0)
  message(FATAL_ERROR "--config bench run failed with ${rc2}: ${err2}")
endif()

execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files ${literal}
                        ${described}
                RESULT_VARIABLE diff)
if(NOT diff EQUAL 0)
  message(FATAL_ERROR
          "trajectory differs between the hard-coded machine "
          "(${LITERAL_ARGS}) and --config ${CONFIG} — the description no "
          "longer reproduces the machine it claims")
endif()
