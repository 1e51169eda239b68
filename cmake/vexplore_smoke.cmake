# vexplore end-to-end smoke:
#   (1) the report is byte-identical between --jobs 1 and --jobs 8,
#   (2) a warm-cache re-run serves >= 90% of points from the result cache
#       and still emits byte-identical report JSON,
#   (3) the template's memory-backend axis is live: at least one sampled
#       machine runs the hierarchy backend,
#   (4) a --scale at or below 0 is rejected with an error naming the flag.
#
# Arguments: VEXPLORE (driver executable), TEMPLATE (DSE template file),
#            OUT_DIR (scratch directory).
set(cache_dir "${OUT_DIR}/vexplore_cache_dir")
set(serial "${OUT_DIR}/vexplore_serial.json")
set(cold "${OUT_DIR}/vexplore_cold.json")
set(warm "${OUT_DIR}/vexplore_warm.json")
file(REMOVE_RECURSE ${cache_dir})

execute_process(COMMAND ${VEXPLORE} --template ${TEMPLATE} --sample 32
                        --seed 7 --quick --jobs 1 --json ${serial}
                RESULT_VARIABLE rc1 OUTPUT_QUIET ERROR_VARIABLE err1)
if(NOT rc1 EQUAL 0)
  message(FATAL_ERROR "vexplore --jobs 1 failed with ${rc1}: ${err1}")
endif()

execute_process(COMMAND ${VEXPLORE} --template ${TEMPLATE} --sample 32
                        --seed 7 --quick --jobs 8 --cache ${cache_dir}
                        --json ${cold}
                RESULT_VARIABLE rc2 OUTPUT_QUIET ERROR_VARIABLE err2)
if(NOT rc2 EQUAL 0)
  message(FATAL_ERROR "vexplore --jobs 8 failed with ${rc2}: ${err2}")
endif()

execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files ${serial} ${cold}
                RESULT_VARIABLE diff1)
if(NOT diff1 EQUAL 0)
  message(FATAL_ERROR
          "vexplore report differs between --jobs 1 and --jobs 8")
endif()

execute_process(COMMAND ${VEXPLORE} --template ${TEMPLATE} --sample 32
                        --seed 7 --quick --jobs 8 --cache ${cache_dir}
                        --json ${warm}
                RESULT_VARIABLE rc3 OUTPUT_QUIET ERROR_VARIABLE err3)
if(NOT rc3 EQUAL 0)
  message(FATAL_ERROR "warm-cache vexplore run failed with ${rc3}: ${err3}")
endif()

execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files ${cold} ${warm}
                RESULT_VARIABLE diff2)
if(NOT diff2 EQUAL 0)
  message(FATAL_ERROR
          "vexplore report differs between the cold-cache and warm-cache "
          "runs — cached results are no longer bit-identical")
endif()

string(REGEX MATCH "served ([0-9]+)/([0-9]+) points from result cache"
       served "${err3}")
if(NOT served)
  message(FATAL_ERROR
          "warm run printed no cache summary line; stderr was: ${err3}")
endif()
set(hits ${CMAKE_MATCH_1})
set(total ${CMAKE_MATCH_2})
math(EXPR scaled_hits "${hits} * 10")
math(EXPR scaled_need "${total} * 9")
if(total EQUAL 0 OR scaled_hits LESS scaled_need)
  message(FATAL_ERROR
          "warm vexplore run served only ${hits}/${total} points from the "
          "cache (need >= 90%)")
endif()

file(READ ${serial} report)
if(NOT report MATCHES "hierarchy")
  message(FATAL_ERROR
          "no sampled point used the hierarchy memory backend — the "
          "template's memory axis is dead")
endif()

execute_process(COMMAND ${VEXPLORE} --template ${TEMPLATE} --sample 4
                        --seed 7 --quick --scale 0
                        --json ${OUT_DIR}/vexplore_scale0.json
                RESULT_VARIABLE rc4 OUTPUT_QUIET ERROR_VARIABLE err4)
if(rc4 EQUAL 0 OR NOT err4 MATCHES "--scale must be > 0")
  message(FATAL_ERROR
          "vexplore --scale 0 was not rejected (exit ${rc4}): ${err4}")
endif()
