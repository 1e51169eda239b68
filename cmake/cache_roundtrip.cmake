# Result-cache round trip: run a sweep bench twice against a fresh cache
# directory, cold at --jobs 1 and warm at --jobs 4 (so several workers serve
# hits at once), and require
#   (1) byte-identical JSON trajectories between the cold and warm runs, and
#   (2) the warm run served >= 90% of its points from the cache
# (the hit/total counts come from the "served K/N points from result cache"
# summary the sweep engine prints on stderr).
#
# Arguments: BENCH (bench executable), TAG (scratch-file prefix),
#            OUT_DIR (scratch directory).
if(NOT TAG)
  set(TAG "sweep")
endif()
set(cache_dir "${OUT_DIR}/${TAG}_cache_dir")
set(cold "${OUT_DIR}/${TAG}_cache_cold.json")
set(warm "${OUT_DIR}/${TAG}_cache_warm.json")
file(REMOVE_RECURSE ${cache_dir})

execute_process(COMMAND ${BENCH} --quick --jobs 1 --cache ${cache_dir}
                        --json ${cold}
                RESULT_VARIABLE rc1 OUTPUT_QUIET ERROR_VARIABLE err1)
if(NOT rc1 EQUAL 0)
  message(FATAL_ERROR "cold-cache bench run failed with ${rc1}: ${err1}")
endif()

execute_process(COMMAND ${BENCH} --quick --jobs 4 --cache ${cache_dir}
                        --json ${warm}
                RESULT_VARIABLE rc2 OUTPUT_QUIET ERROR_VARIABLE err2)
if(NOT rc2 EQUAL 0)
  message(FATAL_ERROR "warm-cache bench run failed with ${rc2}: ${err2}")
endif()

execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files ${cold} ${warm}
                RESULT_VARIABLE diff)
if(NOT diff EQUAL 0)
  message(FATAL_ERROR
          "sweep JSON differs between the cold-cache and warm-cache runs — "
          "cached results are no longer bit-identical to fresh simulations")
endif()

string(REGEX MATCH "served ([0-9]+)/([0-9]+) points from result cache"
       served "${err2}")
if(NOT served)
  message(FATAL_ERROR
          "warm run printed no cache summary line; stderr was: ${err2}")
endif()
set(hits ${CMAKE_MATCH_1})
set(total ${CMAKE_MATCH_2})
math(EXPR scaled_hits "${hits} * 10")
math(EXPR scaled_need "${total} * 9")
if(total EQUAL 0 OR scaled_hits LESS scaled_need)
  message(FATAL_ERROR
          "warm run served only ${hits}/${total} points from the cache "
          "(need >= 90%)")
endif()
