# Perf-floor gate: compare a BENCH_sim_speed.json trajectory against the
# checked-in absolute throughput floors and fail when any point's fast-engine
# cycles/s, cache-probe rate, JSON dump/parse rate or context-digest rate
# drops more than 20% below its floor. The floors carry several-fold
# headroom over typical numbers (see tests/golden/sim_speed_floor.json), so
# a failure means an order-of-magnitude hot-path regression, not timing
# noise.
#
# Arguments: BENCH_JSON (measured trajectory), FLOOR_JSON (floor file).
file(READ "${BENCH_JSON}" bench)
file(READ "${FLOOR_JSON}" floors)

string(JSON npoints LENGTH "${bench}" points)
if(npoints EQUAL 0)
  message(FATAL_ERROR "perf floor: no points in ${BENCH_JSON}")
endif()
math(EXPR last "${npoints} - 1")

set(checked 0)
foreach(i RANGE ${last})
  string(JSON label GET "${bench}" points ${i} label)
  string(JSON fast GET "${bench}" points ${i} cycles_per_sec_fast)
  string(JSON floor ERROR_VARIABLE err GET "${floors}" floors "${label}")
  if(err)
    message(STATUS "perf floor: no floor for '${label}', skipping")
    continue()
  endif()
  # Integer arithmetic: CMake's numeric if() is unreliable on decimals.
  string(REGEX REPLACE "\\..*$" "" fast_int "${fast}")
  math(EXPR limit "${floor} * 8 / 10")
  if(fast_int LESS limit)
    message(FATAL_ERROR
            "perf floor: ${label} measured ${fast_int} cycles/s, more than "
            "20% below the floor ${floor} (limit ${limit}). The hot path "
            "regressed badly; see tests/golden/sim_speed_floor.json.")
  endif()
  message(STATUS
          "perf floor: ${label} ${fast_int} cycles/s >= limit ${limit} (ok)")
  math(EXPR checked "${checked} + 1")
endforeach()

if(checked EQUAL 0)
  message(FATAL_ERROR "perf floor: no point matched any floor entry")
endif()

# Result-cache probe floors: the "cache_probe" array carries integer
# records/sec rates per population size; each is gated against
# probe_floors.records_<N>.<metric> with the same 20% tolerance. Every GET
# here is ERROR_VARIABLE-guarded so older trajectories (no cache_probe
# block) and partial floor files stay acceptable.
string(JSON nprobe ERROR_VARIABLE probe_err LENGTH "${bench}" cache_probe)
if(probe_err)
  message(STATUS "perf floor: no cache_probe block in ${BENCH_JSON}, skipping")
  set(nprobe 0)
endif()
if(nprobe GREATER 0)
  set(probe_checked 0)
  math(EXPR probe_last "${nprobe} - 1")
  foreach(i RANGE ${probe_last})
    string(JSON records GET "${bench}" cache_probe ${i} records)
    foreach(metric hit_per_sec miss_per_sec)
      string(JSON rate ERROR_VARIABLE err
             GET "${bench}" cache_probe ${i} ${metric})
      if(err)
        continue()
      endif()
      string(JSON floor ERROR_VARIABLE err
             GET "${floors}" probe_floors "records_${records}" ${metric})
      if(err)
        message(STATUS
                "perf floor: no probe floor for records_${records}.${metric},"
                " skipping")
        continue()
      endif()
      math(EXPR limit "${floor} * 8 / 10")
      if(rate LESS limit)
        message(FATAL_ERROR
                "perf floor: cache probe records_${records}.${metric} "
                "measured ${rate}/s, more than 20% below the floor ${floor} "
                "(limit ${limit}). A cache lookup got an order of magnitude "
                "slower; see tests/golden/sim_speed_floor.json.")
      endif()
      message(STATUS
              "perf floor: records_${records}.${metric} ${rate}/s >= limit "
              "${limit} (ok)")
      math(EXPR probe_checked "${probe_checked} + 1")
    endforeach()
  endforeach()
  if(probe_checked EQUAL 0)
    message(STATUS "perf floor: cache_probe present but no floors matched")
  endif()
endif()

# Top-level rate floors: each member of json_floors (bytes/s of dump() and
# Json::parse() in the JSON leg) and of digest_floors (contexts/s of the
# context-digest leg) names an integer rate in the trajectory, gated with
# the same 20% tolerance. A rate with a floor must be present in the
# trajectory.
foreach(group json_floors digest_floors)
  string(JSON nfloors ERROR_VARIABLE err LENGTH "${floors}" ${group})
  if(err OR nfloors EQUAL 0)
    message(STATUS "perf floor: no ${group}, skipping")
    continue()
  endif()
  math(EXPR floors_last "${nfloors} - 1")
  foreach(i RANGE ${floors_last})
    string(JSON metric MEMBER "${floors}" ${group} ${i})
    string(JSON floor GET "${floors}" ${group} ${metric})
    string(JSON rate ERROR_VARIABLE err GET "${bench}" ${metric})
    if(err)
      message(FATAL_ERROR "perf floor: ${BENCH_JSON} has no ${metric}")
    endif()
    math(EXPR limit "${floor} * 8 / 10")
    if(rate LESS limit)
      message(FATAL_ERROR
              "perf floor: ${metric} measured ${rate}/s, more than 20% below "
              "the floor ${floor} (limit ${limit}). The layer it times got an "
              "order of magnitude slower; see "
              "tests/golden/sim_speed_floor.json.")
    endif()
    message(STATUS "perf floor: ${metric} ${rate}/s >= limit ${limit} (ok)")
  endforeach()
endforeach()
