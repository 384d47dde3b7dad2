# Adds the bench_e2e target to the repository's own CMake project without
# editing it. run_e2e.py configures the repository root with
#   -DCMAKE_PROJECT_INCLUDE=<this file>
# which project() includes. The target is added at the end of the root
# CMakeLists.txt, so it gets the same compile options, build type and
# splitcnn library as the binaries under bench/. It is left out of `all`,
# so the tree's own builds do not change.
include_guard(GLOBAL)

set(SCNN_BENCH_E2E_SOURCE ${CMAKE_CURRENT_LIST_DIR}/bench_e2e.cc)

function(scnn_add_bench_e2e)
    add_executable(bench_e2e EXCLUDE_FROM_ALL ${SCNN_BENCH_E2E_SOURCE})
    target_link_libraries(bench_e2e PRIVATE splitcnn)
endfunction()

cmake_language(DEFER DIRECTORY ${CMAKE_SOURCE_DIR} CALL scnn_add_bench_e2e)
