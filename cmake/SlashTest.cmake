# Helpers deduplicating the per-binary boilerplate shared by tests/ and
# bench/: one executable per source file, linked against the slash library.

# slash_add_test(<source.cc> [LABELS <label>...]): one gtest binary,
# registered with ctest. Labels define the test tiers (see
# tests/CMakeLists.txt for the tier catalog); unlabeled tests default to
# the fast tier1 suite.
function(slash_add_test test_src)
  cmake_parse_arguments(ARG "" "" "LABELS" ${ARGN})
  get_filename_component(test_name ${test_src} NAME_WE)
  add_executable(${test_name} ${test_src})
  target_link_libraries(${test_name}
    PRIVATE slash GTest::gtest GTest::gtest_main)
  add_test(NAME ${test_name} COMMAND ${test_name})
  if(NOT ARG_LABELS)
    set(ARG_LABELS tier1)
  endif()
  set_tests_properties(${test_name} PROPERTIES LABELS "${ARG_LABELS}")
endfunction()

# slash_add_bench(<source.cc>): one benchmark binary under build/bench/.
# The figure binaries run through bench::RunPoints (bench_util/harness.h);
# only microbench_sim, which measures host wall time, uses google-benchmark.
function(slash_add_bench bench_src)
  get_filename_component(bench_name ${bench_src} NAME_WE)
  add_executable(${bench_name} ${bench_src})
  target_link_libraries(${bench_name} PRIVATE slash)
  if(bench_name STREQUAL "microbench_sim")
    target_link_libraries(${bench_name} PRIVATE benchmark::benchmark)
  endif()
  # Keep ${CMAKE_BINARY_DIR}/bench free of CMake metadata so
  # `for b in build/bench/*; do $b; done` runs exactly the bench binaries.
  set_target_properties(${bench_name} PROPERTIES
    RUNTIME_OUTPUT_DIRECTORY ${CMAKE_BINARY_DIR}/bench)
endfunction()
