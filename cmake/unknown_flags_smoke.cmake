# Unknown-flag smoke: a misspelled flag, a retired flag, an out-of-range
# value and a boolean flag given a non-boolean value must each make their
# program
#   (1) exit nonzero,
#   (2) name the offending flag on stderr,
#   (3) write no JSON.
# Each command runs in its own empty directory, so (3) holds for the
# program's default output path too.
#
# Arguments: TIMESLICE (bench_abl_timeslice), SIM_SPEED
#            (bench_micro_sim_speed), VEXPLORE (DSE driver), TEMPLATE (DSE
#            template file), OUT_DIR (scratch directory).

# Runs the command given after the named arguments in a fresh directory
# OUT_DIR/unknown_flags_<name> and checks the three properties above.
function(expect_rejected name flag)
  set(dir "${OUT_DIR}/unknown_flags_${name}")
  file(REMOVE_RECURSE "${dir}")
  file(MAKE_DIRECTORY "${dir}")
  execute_process(COMMAND ${ARGN}
                  WORKING_DIRECTORY "${dir}"
                  RESULT_VARIABLE rc OUTPUT_VARIABLE stdout
                  ERROR_VARIABLE stderr)
  if(rc EQUAL 0)
    message(FATAL_ERROR "${name} exited 0; stdout: ${stdout}")
  endif()
  string(FIND "${stderr}" "${flag}" at)
  if(at EQUAL -1)
    message(FATAL_ERROR "${name} exited ${rc} without naming ${flag}; "
                        "stderr: ${stderr}")
  endif()
  file(GLOB_RECURSE written "${dir}/*.json")
  if(written)
    message(FATAL_ERROR "${name} wrote ${written} although it was rejected")
  endif()
  file(REMOVE_RECURSE "${dir}")
endfunction()

expect_rejected(typo "--cahce" ${TIMESLICE} --quick --cahce x)
expect_rejected(retired "--profile" ${SIM_SPEED} --quick --profile)
expect_rejected(boolean "--quick" ${TIMESLICE} --quick=banana)
expect_rejected(sample "--sample"
                ${VEXPLORE} --template ${TEMPLATE}
                --sample 1152921504606846976)
