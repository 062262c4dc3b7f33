# Fails when the stream library names an instrument. The stream ends report
# every fact through the kernel's feeds (Kernel::ObserveQueueDepth,
# ObserveFlowEvent, ObserveItems, ObserveSequence), which gate on the
# instruments being installed; nothing under src/core includes an
# instrument's header or reaches an instrument through the kernel:
#
#   if (InvariantMonitor* mon = owner_.kernel().monitor()) { ... }  // fails
#   owner_.kernel().ObserveItems(ItemFlow::kServed, owner_, fresh);  // passes
#
# Scans every .h and .cc file under src/core of SOURCE_DIR; `//` comments
# are ignored. A hit is an include of src/eden/{monitor,metrics,telemetry,
# profile}.h, or the word InvariantMonitor, MetricsRegistry, TelemetrySampler,
# monitor() or metrics(); each is reported as file:line.
#
#   cmake -DSOURCE_DIR=<repo> -P tests/core_names_no_instrument.cmake
if(NOT SOURCE_DIR)
  message(FATAL_ERROR "pass -DSOURCE_DIR=<repository root>")
endif()

set(header "#[ \t]*include[ \t]*\"src/eden/(monitor|metrics|telemetry|profile)\\.h\"")
set(word "[^A-Za-z0-9_](InvariantMonitor|MetricsRegistry|TelemetrySampler|monitor\\(\\)|metrics\\(\\))")
set(pattern "(${header})|(${word})")
set(hits 0)
file(GLOB_RECURSE files "${SOURCE_DIR}/src/core/*.h" "${SOURCE_DIR}/src/core/*.cc")
list(SORT files)
foreach(path IN LISTS files)
  file(READ "${path}" text)
  # Blank out line comments; the newline stays, so line numbers hold. The
  # leading newline gives a name on the first line a character before it.
  string(REGEX REPLACE "//[^\n]*" "" text "${text}")
  set(text "\n${text}")
  set(line 0)
  string(REGEX MATCH "${pattern}" match "${text}")
  while(match)
    # Group 4 is the bare word; a word match also holds the character before.
    if(CMAKE_MATCH_4)
      set(name "${CMAKE_MATCH_4}")
    else()
      set(name "${match}")
    endif()
    string(FIND "${text}" "${match}" at)
    string(LENGTH "${match}" length)
    math(EXPR after "${at} + ${length}")
    string(SUBSTRING "${text}" 0 ${after} before)
    string(REGEX MATCHALL "\n" newlines "${before}")
    list(LENGTH newlines count)
    math(EXPR line "${line} + ${count}")
    file(RELATIVE_PATH file "${SOURCE_DIR}" "${path}")
    message(SEND_ERROR
      "${file}:${line}: src/core names an instrument (${name}); "
      "report through a Kernel::Observe* feed instead")
    math(EXPR hits "${hits} + 1")
    string(SUBSTRING "${text}" ${after} -1 text)
    string(REGEX MATCH "${pattern}" match "${text}")
  endwhile()
endforeach()
list(LENGTH files scanned)
if(hits GREATER 0)
  message(FATAL_ERROR "${hits} instrument names in ${scanned} src/core files")
endif()
message(STATUS "no instrument names in ${scanned} src/core files")
