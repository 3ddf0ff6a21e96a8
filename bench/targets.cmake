# Benchmark drivers: one executable per paper table/figure, plus ablations
# and google-benchmark microbenchmarks. Included from the top-level
# CMakeLists (not via add_subdirectory) so that build/bench/ contains only
# the executables and `for b in build/bench/*; do $b; done` runs cleanly.

function(fv_add_bench name)
  add_executable(${name} ${CMAKE_SOURCE_DIR}/bench/${name}.cc)
  target_link_libraries(${name} PRIVATE fv_core fv_baseline fv_benchlib ${ARGN})
  set_target_properties(${name} PROPERTIES
    RUNTIME_OUTPUT_DIRECTORY ${CMAKE_BINARY_DIR}/bench)
endfunction()

fv_add_bench(table1_resources)
fv_add_bench(fig6_rdma)
fv_add_bench(fig7_projection)
fv_add_bench(fig8_selection)
fv_add_bench(fig9_grouping)
fv_add_bench(fig10_regex)
fv_add_bench(fig11_encryption)
fv_add_bench(fig12_multiclient)
fv_add_bench(ablate_cuckoo)
fv_add_bench(ablate_packet_size)
fv_add_bench(ablate_striping)
fv_add_bench(ablate_vector)
fv_add_bench(micro_primitives benchmark::benchmark)
fv_add_bench(ext_join)
fv_add_bench(ext_buffer_pool fv_storage)
fv_add_bench(ext_elasticity)
fv_add_bench(ext_optimizer fv_optimizer)
fv_add_bench(ext_compression fv_compress)
fv_add_bench(ext_faults)
fv_add_bench(ext_failover)
fv_add_bench(ext_shardout)
# Overload protection (DESIGN.md §15): hot-tenant storm through the
# RegionScheduler with and without admission shaping; stdout is
# deterministic and golden-checked.
fv_add_bench(ext_overload)

# Wall-clock simulator-core harness (DESIGN.md §8). Links the counting
# allocator hook so it can report allocs/event; like micro_primitives it is
# machine-dependent and excluded from the bench byte-identity sweep.
fv_add_bench(perf_simcore)
target_sources(perf_simcore PRIVATE $<TARGET_OBJECTS:fv_alloc_hook>)
