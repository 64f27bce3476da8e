# Writes the git HEAD of the repository around perfbench/ into a C++ source
# file, touching the file only when the sha changed. The build runs it every
# time, so a binary rebuilt after a checkout reports the sha it was built
# from. Outside a git work tree of its own the sha is "unknown".
#
#   cmake -DROOT=<repo root> -DOUT=<file.cpp> [-DGIT_EXECUTABLE=<git>] -P git_sha.cmake
set(sha "unknown")
if(GIT_EXECUTABLE)
  execute_process(COMMAND "${GIT_EXECUTABLE}" rev-parse --show-toplevel HEAD
                  WORKING_DIRECTORY "${ROOT}"
                  OUTPUT_VARIABLE out OUTPUT_STRIP_TRAILING_WHITESPACE
                  RESULT_VARIABLE rc ERROR_QUIET)
  if(rc EQUAL 0)
    string(REPLACE "\n" ";" out "${out}")
    list(GET out 0 toplevel)
    list(GET out 1 head)
    file(REAL_PATH "${toplevel}" toplevel)
    file(REAL_PATH "${ROOT}" root)
    # A checkout without .git nested in some other work tree must not
    # borrow that tree's sha.
    if(toplevel STREQUAL root)
      set(sha "${head}")
    endif()
  endif()
endif()
file(WRITE "${OUT}.tmp"
     "namespace perfbench {\nextern const char kGitSha[] = \"${sha}\";\n}\n")
execute_process(COMMAND "${CMAKE_COMMAND}" -E copy_if_different "${OUT}.tmp" "${OUT}")
file(REMOVE "${OUT}.tmp")
