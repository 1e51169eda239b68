# Timeout smoke: under a 1 ms --timeout with one retry, a sweep bench and a
# vexplore run must each
#   (1) exit 1 and print how many points failed,
#   (2) write JSON in which at least one point is "failed": true with the
#       error "timed out after 1 ms" (the bench trajectory also records
#       "attempts": 2 for it).
#
# Arguments: BENCH (sweep bench executable), VEXPLORE (DSE driver),
#            TEMPLATE (DSE template file), OUT_DIR (scratch directory).

# Runs the command given after the named arguments and checks its exit code,
# its failed-point line, and that the JSON at `out` holds the strings above
# plus `extra_match` (when not empty).
function(expect_timed_out name out extra_match)
  file(REMOVE ${out})
  execute_process(COMMAND ${ARGN}
                  RESULT_VARIABLE rc OUTPUT_VARIABLE stdout
                  ERROR_VARIABLE stderr)
  if(NOT rc EQUAL 1)
    message(FATAL_ERROR
            "${name} under --timeout 1 exited ${rc}, expected 1; "
            "stdout: ${stdout} stderr: ${stderr}")
  endif()
  if(NOT stdout MATCHES "[0-9]+/[0-9]+ points failed")
    message(FATAL_ERROR "${name} printed no failed-point line: ${stdout}")
  endif()
  if(NOT EXISTS ${out})
    message(FATAL_ERROR "${name} wrote no JSON at ${out}")
  endif()
  file(READ ${out} doc)
  foreach(needle "\"failed\": true" "timed out after 1 ms" ${extra_match})
    string(FIND "${doc}" "${needle}" at)
    if(at EQUAL -1)
      message(FATAL_ERROR "${name}: ${out} holds no '${needle}'")
    endif()
  endforeach()
endfunction()

expect_timed_out(bench "${OUT_DIR}/timeout_bench.json" "\"attempts\": 2"
                 ${BENCH} --quick --jobs 2 --timeout 1 --retries 1
                 --json "${OUT_DIR}/timeout_bench.json")
expect_timed_out(vexplore "${OUT_DIR}/timeout_vexplore.json" ""
                 ${VEXPLORE} --template ${TEMPLATE} --sample 16 --seed 7
                 --quick --jobs 2 --timeout 1 --retries 1
                 --json "${OUT_DIR}/timeout_vexplore.json")
