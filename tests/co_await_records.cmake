# Fails when a co_await operand builds a stream record temporary in braces:
#
#   co_await owner.Invoke(target, op, TransferArgs{channel, 1});
#
# GCC 12 destroys such a temporary twice (seen as `munmap_chunk(): invalid
# pointer`), and nothing rejects it at compile time. Name the record first:
#
#   TransferArgs args{channel, 1};
#   co_await owner.Invoke(target, op, std::move(args));
#
# Scans every .h and .cc file under src/, tests/, bench/ and examples/ of
# SOURCE_DIR; `//` comments are ignored. A match runs from `co_await` to one
# of the four record names followed by `{`, with no `;`, `{` or `}` between,
# so it stays inside one statement's co_await operand.
#
#   cmake -DSOURCE_DIR=<repo> -P tests/co_await_records.cmake
if(NOT SOURCE_DIR)
  message(FATAL_ERROR "pass -DSOURCE_DIR=<repository root>")
endif()

set(pattern "co_await[^;{}]*(TransferArgs|PushArgs|BatchReply|PushAck)[ \t\r\n]*{")
set(hits 0)
file(GLOB_RECURSE files
  "${SOURCE_DIR}/src/*.h" "${SOURCE_DIR}/src/*.cc"
  "${SOURCE_DIR}/tests/*.h" "${SOURCE_DIR}/tests/*.cc"
  "${SOURCE_DIR}/bench/*.h" "${SOURCE_DIR}/bench/*.cc"
  "${SOURCE_DIR}/examples/*.h" "${SOURCE_DIR}/examples/*.cc")
list(SORT files)
foreach(path IN LISTS files)
  file(READ "${path}" text)
  # Blank out line comments; the newline stays, so line numbers hold.
  string(REGEX REPLACE "//[^\n]*" "" text "${text}")
  set(line 1)
  string(REGEX MATCH "${pattern}" match "${text}")
  while(match)
    string(FIND "${text}" "${match}" at)
    string(SUBSTRING "${text}" 0 ${at} before)
    string(REGEX MATCHALL "\n" newlines "${before}")
    list(LENGTH newlines count)
    math(EXPR line "${line} + ${count}")
    file(RELATIVE_PATH name "${SOURCE_DIR}" "${path}")
    message(SEND_ERROR
      "${name}:${line}: co_await operand builds a braced record temporary; "
      "name the record before the co_await")
    math(EXPR hits "${hits} + 1")
    # Continue after the match, counting the newlines it spans.
    string(LENGTH "${match}" length)
    math(EXPR after "${at} + ${length}")
    string(SUBSTRING "${text}" ${after} -1 text)
    string(REGEX MATCHALL "\n" newlines "${match}")
    list(LENGTH newlines count)
    math(EXPR line "${line} + ${count}")
    string(REGEX MATCH "${pattern}" match "${text}")
  endwhile()
endforeach()
list(LENGTH files scanned)
if(hits GREATER 0)
  message(FATAL_ERROR "${hits} co_await record temporaries in ${scanned} files")
endif()
message(STATUS "no co_await record temporaries in ${scanned} files")
