# ISA-leak guard for the per-ISA packet-kernel objects.
#
# Every inline function or template the AVX-512 build of packet_kernel.cpp
# / vmath.cpp emits out of line is a weak (COMDAT) definition, and the
# linker keeps ONE copy of each for the whole program — possibly the
# EVEX-encoded one, which an AVX2-only CPU cannot execute (SIGILL far from
# the packet loop). So those objects must define no weak or unique code
# symbol at all: everything they emit is either their own namespace's
# strong symbols or internal-linkage helpers.
#
#   cmake -DOBJDUMP=objdump -DOBJECTS="a.o,b.o" -P tools/check_isa_leak.cmake
#
# OBJECTS is comma-separated (a CMake list would be split by add_test).
if(NOT OBJDUMP OR NOT OBJECTS)
  message(FATAL_ERROR
    "usage: cmake -DOBJDUMP=... -DOBJECTS=a.o,b.o -P check_isa_leak.cmake")
endif()
string(REPLACE "," ";" objects "${OBJECTS}")

set(leaks "")
foreach(object IN LISTS objects)
  execute_process(COMMAND ${OBJDUMP} -t ${object}
                  OUTPUT_VARIABLE table RESULT_VARIABLE status)
  if(NOT status EQUAL 0)
    message(FATAL_ERROR "${OBJDUMP} -t ${object} failed (${status})")
  endif()
  string(REPLACE "\n" ";" lines "${table}")
  foreach(line IN LISTS lines)
    # objdump -t: VALUE, 7 flag columns (1st l/g/u/!, 2nd w), SECTION.
    if(line MATCHES "^[0-9a-f]+ (.)(.)..... (\\.text[^\t ]*)\t[0-9a-f]+ (.*)$")
      if(CMAKE_MATCH_1 STREQUAL "u" OR CMAKE_MATCH_2 STREQUAL "w")
        string(APPEND leaks
               "  ${object}: ${CMAKE_MATCH_4} (${CMAKE_MATCH_3})\n")
      endif()
    endif()
  endforeach()
endforeach()

if(leaks)
  message(FATAL_ERROR
    "weak/COMDAT code symbols in ISA-specific objects — the linker may "
    "pick these copies for the whole program:\n${leaks}"
    "Keep the helper internal (anonymous namespace) or out of the packet "
    "TUs.")
endif()
list(LENGTH objects count)
message(STATUS "isa_leak: ${count} object(s), no weak/COMDAT code symbols")
