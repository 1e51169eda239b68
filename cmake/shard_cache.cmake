# Sharded-sweep cache-behaviour checks for one bench:
#   (1) four UNcached shard processes + vexmerge reproduce the checked-in
#       1-process golden trajectory byte-for-byte (no cache anywhere, so the
#       "cached" provenance fields match the golden run),
#   (2) a warm single-shard re-run against a shared cache directory serves
#       >= 90% of its points from the cache and emits a byte-identical shard
#       document,
#   (3) `--cache-gc 0` evicts every record: no record files remain, and a
#       later run stores records into the emptied directory again.
#
# Arguments: BENCH (bench executable), MERGE (vexmerge executable),
#            GOLDEN (checked-in golden JSON for the bench's plain --quick
#            run), TAG (scratch-file prefix), OUT_DIR (scratch directory).
if(NOT TAG)
  set(TAG "shardcache")
endif()

# --- (1) uncached shards vs the golden trajectory -------------------------
set(shard_files "")
foreach(i RANGE 1 4)
  set(shard_out "${OUT_DIR}/${TAG}_nocache_shard${i}of4.json")
  execute_process(COMMAND ${BENCH} --quick --shard ${i}/4 --json ${shard_out}
                  RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR
            "uncached shard ${i}/4 run failed with ${rc}: ${err}")
  endif()
  list(APPEND shard_files ${shard_out})
endforeach()
set(merged "${OUT_DIR}/${TAG}_nocache_merged.json")
execute_process(COMMAND ${MERGE} --out ${merged} ${shard_files}
                RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "vexmerge failed with ${rc}: ${err}")
endif()
execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files ${merged} ${GOLDEN}
                RESULT_VARIABLE diff)
if(NOT diff EQUAL 0)
  message(FATAL_ERROR
          "merged uncached 4-shard trajectory differs from the golden "
          "1-process trajectory ${GOLDEN}")
endif()
message(STATUS "${TAG}: uncached 4-shard merge matches the golden trajectory")

# --- (2) warm single-shard re-run hits the cache --------------------------
set(cache_dir "${OUT_DIR}/${TAG}_cache_dir")
file(REMOVE_RECURSE ${cache_dir})
set(cold "${OUT_DIR}/${TAG}_warmprobe_cold.json")
set(warm "${OUT_DIR}/${TAG}_warmprobe_warm.json")
execute_process(COMMAND ${BENCH} --quick --shard 1/4 --cache ${cache_dir}
                        --json ${cold}
                RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "cold shard run failed with ${rc}: ${err}")
endif()
execute_process(COMMAND ${BENCH} --quick --shard 1/4 --cache ${cache_dir}
                        --json ${warm}
                RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "warm shard run failed with ${rc}: ${err}")
endif()
execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files ${cold} ${warm}
                RESULT_VARIABLE diff)
if(NOT diff EQUAL 0)
  message(FATAL_ERROR
          "shard document differs between the cold- and warm-cache runs")
endif()
string(REGEX MATCH "served ([0-9]+)/([0-9]+) points from result cache"
       served "${err}")
if(NOT served)
  message(FATAL_ERROR
          "warm shard run printed no cache summary line; stderr was: ${err}")
endif()
set(hits ${CMAKE_MATCH_1})
set(total ${CMAKE_MATCH_2})
math(EXPR scaled_hits "${hits} * 10")
math(EXPR scaled_need "${total} * 9")
if(total EQUAL 0 OR scaled_hits LESS scaled_need)
  message(FATAL_ERROR
          "warm shard run served only ${hits}/${total} points from the "
          "cache (need >= 90%)")
endif()
message(STATUS "${TAG}: warm shard re-run served ${hits}/${total} points")

# --- (3) --cache-gc 0 empties the cache, which stays usable ---------------
set(gc_out "${OUT_DIR}/${TAG}_gc.json")
execute_process(COMMAND ${BENCH} --quick --shard 1/4 --cache ${cache_dir}
                        --cache-gc 0 --json ${gc_out}
                RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "--cache-gc run failed with ${rc}: ${err}")
endif()
if(NOT err MATCHES "cache-gc evicted")
  message(FATAL_ERROR
          "--cache-gc run printed no eviction summary; stderr was: ${err}")
endif()
file(GLOB leftover "${cache_dir}/*.json")
if(leftover)
  message(FATAL_ERROR
          "--cache-gc 0 left record files behind: ${leftover}")
endif()
# The emptied cache must still be usable: a fresh run repopulates it.
execute_process(COMMAND ${BENCH} --quick --shard 1/4 --cache ${cache_dir}
                        --json ${gc_out}
                RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "post-gc repopulation run failed with ${rc}: ${err}")
endif()
file(GLOB records "${cache_dir}/*.json")
list(LENGTH records nrecords)
if(nrecords EQUAL 0)
  message(FATAL_ERROR "post-gc repopulation stored no records")
endif()
message(STATUS
        "${TAG}: --cache-gc emptied the cache and a re-run repopulated it "
        "(${nrecords} records)")
