# Static C++ runtime guard for the cluster binaries.
#
# phodis_server and phodis_worker are started afresh for every cluster run,
# so they link libstdc++ and libgcc statically (-static-libstdc++
# -static-libgcc) to skip loading and relocating the shared runtime. This
# check reads each binary's dynamic section and fails if a NEEDED entry
# names libstdc++ or libgcc_s, so a CMake edit cannot silently bring the
# shared runtime back.
#
#   cmake -DOBJDUMP=objdump -DBINARIES="phodis_server,phodis_worker"
#         -P tools/check_static_runtime.cmake
#
# BINARIES is comma-separated (a CMake list would be split by add_test).
if(NOT OBJDUMP OR NOT BINARIES)
  message(FATAL_ERROR
    "usage: cmake -DOBJDUMP=... -DBINARIES=a,b -P check_static_runtime.cmake")
endif()
string(REPLACE "," ";" binaries "${BINARIES}")

set(shared "")
foreach(binary IN LISTS binaries)
  execute_process(COMMAND ${OBJDUMP} -p ${binary}
                  OUTPUT_VARIABLE headers RESULT_VARIABLE status)
  if(NOT status EQUAL 0)
    message(FATAL_ERROR "${OBJDUMP} -p ${binary} failed (${status})")
  endif()
  string(REPLACE "\n" ";" lines "${headers}")
  set(needed 0)
  foreach(line IN LISTS lines)
    if(line MATCHES "^ *NEEDED +([^ ]+)$")
      set(library "${CMAKE_MATCH_1}")
      math(EXPR needed "${needed} + 1")
      if(library MATCHES "^lib(stdc\\+\\+|gcc_s)\\.")
        string(APPEND shared "  ${binary}: ${library}\n")
      endif()
    endif()
  endforeach()
  # A binary with no NEEDED entry at all means the output format changed
  # and nothing was checked.
  if(needed EQUAL 0)
    message(FATAL_ERROR "${OBJDUMP} -p ${binary} listed no NEEDED entry")
  endif()
endforeach()

if(shared)
  message(FATAL_ERROR
    "cluster binaries load the shared C++ runtime:\n${shared}"
    "Link them with -static-libstdc++ -static-libgcc (CMakeLists.txt).")
endif()
list(LENGTH binaries count)
message(STATUS "static_runtime: ${count} binary(ies), no libstdc++/libgcc_s")
