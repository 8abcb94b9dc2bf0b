# Writes OUT as `#define PC_GIT_SHA "<git describe --always --dirty>"` for
# the tree at SRC, and touches OUT only when that text changes, so an
# unchanged tree rebuilds nothing. Run on every build by the pc_git_sha
# target (CMakeLists.txt).
execute_process(
  COMMAND git describe --always --dirty
  WORKING_DIRECTORY ${SRC}
  OUTPUT_VARIABLE sha
  OUTPUT_STRIP_TRAILING_WHITESPACE
  ERROR_QUIET)
if(NOT sha)
  set(sha "unknown")
endif()
set(text "#pragma once\n#define PC_GIT_SHA \"${sha}\"\n")
set(old "")
if(EXISTS ${OUT})
  file(READ ${OUT} old)
endif()
if(NOT old STREQUAL text)
  file(WRITE ${OUT} "${text}")
endif()
