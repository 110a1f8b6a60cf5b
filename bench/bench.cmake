# Benchmark binaries. Included from the top-level CMakeLists (rather than
# add_subdirectory) so that build/bench/ contains only the executables and
# `for b in build/bench/*; do $b; done` runs the full suite cleanly.

function(swan_add_bench name)
  add_executable(${name} ${CMAKE_SOURCE_DIR}/bench/${name}.cc ${ARGN})
  target_include_directories(${name} PRIVATE ${CMAKE_SOURCE_DIR}/bench)
  target_link_libraries(${name} PRIVATE
    swan_bench_support swan_core swan_cstore swan_colstore swan_rowstore
    swan_rdf swan_dict swan_storage swan_common)
  set_target_properties(${name} PROPERTIES
    RUNTIME_OUTPUT_DIRECTORY ${CMAKE_BINARY_DIR}/bench)
endfunction()

foreach(bench table1_dataset_stats figure1_cdf table2_query_coverage
        section21_distribution_detail figure5_io_history ablation_updates
        ablation_q8_join ablation_planner parallel_speedup)
  swan_add_bench(${bench})
endforeach()
# The exhibit runner, compiled once for the benches that are its specs.
add_library(swan_exhibit OBJECT ${CMAKE_SOURCE_DIR}/bench/exhibit.cc)
foreach(exhibit table4_cstore_repetition table5_query_footprint
        table6_cold_runs table7_hot_runs figure6_property_sweep
        figure7_scaleup scale_sensitivity ablation_buffer_pool
        ablation_compression)
  swan_add_bench(${exhibit} $<TARGET_OBJECTS:swan_exhibit>)
endforeach()
# The q8 join ablation exits 1 when its three join strategies disagree.
add_test(NAME ablation_q8_join COMMAND ablation_q8_join)
set_tests_properties(ablation_q8_join PROPERTIES
  ENVIRONMENT "SWAN_TRIPLES=20000" TIMEOUT ${SWAN_TEST_TIMEOUT})
# Every exhibit at 20k triples, one repetition: each checks every design
# against the reference backend before it measures, and writes its bench
# JSON into the build tree. The benches gate no timing; the check_claims
# test (tools/CMakeLists.txt) judges the paper's claims on the JSON of
# Tables 4, 6 and 7 and the compression ablation, its fixture.
foreach(exhibit table4_cstore_repetition table5_query_footprint
        table6_cold_runs table7_hot_runs figure6_property_sweep
        figure7_scaleup ablation_buffer_pool ablation_compression)
  add_test(NAME ${exhibit}
           COMMAND ${exhibit} --json=${CMAKE_BINARY_DIR}/BENCH_${exhibit}.json)
  set_tests_properties(${exhibit} PROPERTIES
    ENVIRONMENT "SWAN_TRIPLES=20000;SWAN_REPS=1" TIMEOUT ${SWAN_TEST_TIMEOUT})
endforeach()
set_tests_properties(table4_cstore_repetition table6_cold_runs table7_hot_runs
  ablation_compression PROPERTIES FIXTURES_SETUP claims_json)
swan_add_bench(scaleout)
target_link_libraries(scaleout PRIVATE swan_shard swan_net)
swan_add_bench(serve_throughput)
target_link_libraries(serve_throughput PRIVATE swan_serve swan_sparql)

foreach(micro micro_colstore_ops micro_merge_join micro_bplus_tree
        micro_compression micro_sparql)
  swan_add_bench(${micro})
  target_link_libraries(${micro} PRIVATE benchmark::benchmark)
endforeach()
target_link_libraries(micro_sparql PRIVATE swan_sparql)
