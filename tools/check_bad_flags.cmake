# Malformed-flag check for every main that takes flags.
#
# Runs each binary once per malformed flag and expects it to stop before
# it does any work: exit status 1 and an error line that names the flag
# and quotes the bad value, printed by util::run_main. A flag parsed
# outside run_main ends in std::terminate (SIGABRT) instead. phodis_lint
# parses its own flags and answers a malformed one with its usage error,
# exit status 2.
#
#   cmake -DBIN_DIR=build -P tools/check_bad_flags.cmake
if(NOT BIN_DIR)
  message(FATAL_ERROR "usage: cmake -DBIN_DIR=... -P check_bad_flags.cmake")
endif()

# Each case: binary|flag|value|what the flag takes|exit status. The
# --listen/--connect paths are never opened when the check holds; the
# timeout bounds a run that parses the bad value and goes on to work. No
# case passes a huge --threads, --workers or --jobs value: a build that
# wraps it would start that many threads.
set(cases
  "phodis_server|lease|2s|a number|1"
  "phodis_server|drop|x|a number|1"
  "phodis_server|seed|-5|a non-negative integer|1"
  "phodis_server|seed|abc|a non-negative integer|1"
  "phodis_server|drop-seed|1.5|a non-negative integer|1"
  "phodis_server|photons|2e5|a non-negative integer|1"
  "phodis_worker|drop|five|a number|1"
  "phodis_worker|drop-seed|-1|a non-negative integer|1"
  "phodis_worker|death-seed|-5|a non-negative integer|1"
  "phodis_worker|threads|4x|a non-negative integer|1"
  "phodis_lint|jobs|abc|a non-negative integer|2"
  "bench_boundary_modes|photons|abc|a non-negative integer|1"
  "bench_dist_overhead|chunk|4k|a non-negative integer|1"
  "bench_fig2_speedup|max-procs|ten|a non-negative integer|1"
  "bench_fig3_banana|granularity|1.5|a non-negative integer|1"
  "bench_fig4_layers|seed|-1|a non-negative integer|1"
  "bench_kernel|photons|-1|a non-negative integer|1"
  "bench_pathlength_gating|separation|ten|a number|1"
  "bench_radial_reflectance|photons|2e5|a non-negative integer|1"
  "bench_scheduler_ablation|photons|5e7|a non-negative integer|1"
  "bench_sources|photons|12x|a non-negative integer|1"
  "adult_head_nirs|separation|far|a number|1"
  "cluster_throughput|photons|6e4|a non-negative integer|1"
  "csf_effect|photons|many|a non-negative integer|1"
  "optode_spacing_study|mua|x|a number|1"
  "quickstart|photons|-1|a non-negative integer|1"
)

set(failures "")
foreach(entry IN LISTS cases)
  string(REPLACE "|" ";" fields "${entry}")
  list(GET fields 0 name)
  list(GET fields 1 flag)
  list(GET fields 2 value)
  list(GET fields 3 takes)
  list(GET fields 4 expected_status)
  set(extra "")
  if(name MATCHES "^phodis_(server|worker)$")
    set(extra --listen unix:bad_flags.sock --connect unix:bad_flags.sock
              --reconnect-attempts 0)
  endif()
  execute_process(
    COMMAND ${BIN_DIR}/${name} ${extra} --${flag} ${value}
    OUTPUT_VARIABLE out ERROR_VARIABLE err RESULT_VARIABLE status
    TIMEOUT 5)
  set(expected "${name}: --${flag} takes ${takes}, not \"${value}\"")
  string(FIND "${err}" "${expected}" at)
  if(NOT status STREQUAL expected_status OR at EQUAL -1)
    string(APPEND failures
           "  ${name} --${flag} ${value}: status ${status}, stderr:\n"
           "    ${err}\n    expected status ${expected_status} and: "
           "${expected}\n")
  endif()
endforeach()

if(failures)
  message(FATAL_ERROR "malformed flags not rejected cleanly:\n${failures}")
endif()
list(LENGTH cases count)
message(STATUS "bad_flags: ${count} malformed flag(s), each rejected")
