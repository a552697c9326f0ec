# Malformed-flag check for the cluster binaries.
#
# Runs phodis_server and phodis_worker once per malformed flag and expects
# each run to stop before it opens a socket: exit status 1 and an error
# line that names the flag and quotes the bad value. A flag parsed outside
# main's try block ends in std::terminate (SIGABRT) instead.
#
#   cmake -DSERVER=phodis_server -DWORKER=phodis_worker
#         -P tools/check_bad_flags.cmake
if(NOT SERVER OR NOT WORKER)
  message(FATAL_ERROR
    "usage: cmake -DSERVER=... -DWORKER=... -P check_bad_flags.cmake")
endif()

# Each case: binary|flag|value|what the flag takes. The --listen/--connect
# paths are never opened when the check holds; the timeout bounds a run
# that parses the bad value and goes on to serve or connect.
set(cases
  "${SERVER}|lease|2s|a number"
  "${SERVER}|drop|x|a number"
  "${SERVER}|seed|-5|a non-negative integer"
  "${SERVER}|seed|abc|a non-negative integer"
  "${SERVER}|drop-seed|1.5|a non-negative integer"
  "${SERVER}|photons|2e5|a non-negative integer"
  "${WORKER}|drop|five|a number"
  "${WORKER}|drop-seed|-1|a non-negative integer"
  "${WORKER}|death-seed|-5|a non-negative integer"
  "${WORKER}|threads|4x|a non-negative integer"
)

set(failures "")
foreach(entry IN LISTS cases)
  string(REPLACE "|" ";" fields "${entry}")
  list(GET fields 0 binary)
  list(GET fields 1 flag)
  list(GET fields 2 value)
  list(GET fields 3 takes)
  get_filename_component(name "${binary}" NAME)
  execute_process(
    COMMAND ${binary} --listen unix:bad_flags.sock
            --connect unix:bad_flags.sock --reconnect-attempts 0
            --${flag} ${value}
    OUTPUT_VARIABLE out ERROR_VARIABLE err RESULT_VARIABLE status
    TIMEOUT 5)
  set(expected "${name}: --${flag} takes ${takes}, not \"${value}\"")
  string(FIND "${err}" "${expected}" at)
  if(NOT status STREQUAL "1" OR at EQUAL -1)
    string(APPEND failures
           "  ${name} --${flag} ${value}: status ${status}, stderr:\n"
           "    ${err}\n    expected status 1 and: ${expected}\n")
  endif()
endforeach()

if(failures)
  message(FATAL_ERROR "malformed flags not rejected cleanly:\n${failures}")
endif()
list(LENGTH cases count)
message(STATUS "bad_flags: ${count} malformed flag(s), each exit 1")
