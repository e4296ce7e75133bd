package main

// metricDef describes one reported number.  BENCHMARK.json at the root of
// the repository repeats these tables for the driver; a test keeps the two
// in step.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"` // allowed worsening, end-to-end only
}

const (
	lower  = "lower"
	higher = "higher"
)

// endToEnd are the gated metrics; every workload reports all of them from
// the untraced run.  The bounds come from the builder's ten-run spreads on
// the host class this was written on; README.md has the runs.
var endToEnd = []metricDef{
	{"op_ms", "ms", lower, 0.25},
	{"op_hand_ms", "ms", lower, 0.25},
	{"setup_s", "s", lower, 0.25},
	{"allocs_per_op", "1", lower, 0.05},
	{"heap_mb", "MB", lower, 0.20},
}

// perLayer are the ungated metrics of the traced run, named after the
// repo's packages.  Times are lower deciles unless suffixed; counts are
// per datatype-arm op of the workload that was run.
var perLayer = []metricDef{
	{Name: "mg.cycles", Unit: "count", Better: lower},
	{Name: "mg.cycle_ms", Unit: "ms", Better: lower},
	{Name: "mg.cycle_p50_ms", Unit: "ms", Better: lower},
	{Name: "mg.cycle_p90_ms", Unit: "ms", Better: lower},
	{Name: "mg.init_ms", Unit: "ms", Better: lower},
	{Name: "mg.apply_l0_ms", Unit: "ms", Better: lower},
	{Name: "mg.stencil_self_ms", Unit: "ms", Better: lower},
	{Name: "mg.stencil_ns_per_cell", Unit: "ns", Better: lower},
	{Name: "mg.np2_overhead_ms_per_cycle", Unit: "ms", Better: lower},
	{Name: "mg.first_op_excess_ms", Unit: "ms", Better: lower},
	{Name: "mg.new_ms", Unit: "ms", Better: lower},

	{Name: "dmda.g2l_l0_us", Unit: "us", Better: lower},
	{Name: "dmda.g2l_l1_us", Unit: "us", Better: lower},
	{Name: "dmda.g2l_l2_us", Unit: "us", Better: lower},
	{Name: "dmda.g2l_l3_us", Unit: "us", Better: lower},
	{Name: "dmda.self_l0_us", Unit: "us", Better: lower},

	{Name: "petsc.scatter_l0_us", Unit: "us", Better: lower},
	{Name: "petsc.scatter_us", Unit: "us", Better: lower},
	{Name: "petsc.scatter_rev_add_us", Unit: "us", Better: lower},
	{Name: "petsc.self_us", Unit: "us", Better: lower},
	{Name: "petsc.hand_over_dt", Unit: "ratio", Better: higher},
	{Name: "petsc.new_scatter_ms", Unit: "ms", Better: lower},

	{Name: "mpi.alltoallw_us", Unit: "us", Better: lower},
	{Name: "mpi.alltoallw_small_us", Unit: "us", Better: lower},
	{Name: "mpi.self_us", Unit: "us", Better: lower},
	{Name: "mpi.barrier_us", Unit: "us", Better: lower},
	{Name: "mpi.allreduce_us", Unit: "us", Better: lower},
	{Name: "mpi.msgs_per_op", Unit: "count", Better: lower},
	{Name: "mpi.bytes_per_op", Unit: "B", Better: lower},
	{Name: "mpi.fused_sends_per_op", Unit: "count", Better: higher},
	{Name: "mpi.self_bytes_share", Unit: "ratio", Better: lower},

	{Name: "datatype.pack_us", Unit: "us", Better: lower},
	{Name: "datatype.unpack_us", Unit: "us", Better: lower},
	{Name: "datatype.pack_contig_us", Unit: "us", Better: lower},
	{Name: "datatype.pack_gbps", Unit: "GB/s", Better: higher},
	{Name: "datatype.plan_compile_us", Unit: "us", Better: lower},
	{Name: "datatype.plan_cache_misses_per_op", Unit: "count", Better: lower},
	{Name: "datatype.pool_gets_per_op", Unit: "count", Better: lower},
	{Name: "datatype.pool_outstanding_kb", Unit: "KB", Better: lower},

	{Name: "transport.tcp_rtt_64B_us", Unit: "us", Better: lower},
	{Name: "transport.tcp_rtt_72KiB_us", Unit: "us", Better: lower},
	{Name: "transport.shm_rtt_64B_us", Unit: "us", Better: lower},
	{Name: "transport.shm_rtt_256KiB_us", Unit: "us", Better: lower},
	{Name: "transport.mux_rtt_64B_us", Unit: "us", Better: lower},
	{Name: "transport.tcp_frames_per_op", Unit: "count", Better: lower},
	{Name: "transport.tcp_bytes_per_op", Unit: "B", Better: lower},
	{Name: "transport.tcp_vectored_per_op", Unit: "count", Better: higher},
	{Name: "transport.shm_frames_per_op", Unit: "count", Better: lower},
	{Name: "transport.shm_ring_full_stalls_per_op", Unit: "count", Better: lower},
	{Name: "transport.shm_stall_us_per_op", Unit: "us", Better: lower},
	{Name: "transport.mesh_setup_ms", Unit: "ms", Better: lower},

	{Name: "service.job_ms", Unit: "ms", Better: lower},
	{Name: "service.job_p50_ms", Unit: "ms", Better: lower},
	{Name: "service.job_p90_ms", Unit: "ms", Better: lower},
	{Name: "service.solo_job_ms", Unit: "ms", Better: lower},
	{Name: "service.submit_us", Unit: "us", Better: lower},
	{Name: "service.overhead_ms", Unit: "ms", Better: lower},
	{Name: "service.refused_per_op", Unit: "count", Better: lower},
	{Name: "service.fleet_boot_ms", Unit: "ms", Better: lower},

	{Name: "obs.trace_overhead_pct", Unit: "%", Better: lower},
	{Name: "bench.trace_overhead_pct", Unit: "%", Better: lower},
	{Name: "bench.samples", Unit: "count", Better: higher},
	{Name: "bench.quiet_share", Unit: "ratio", Better: higher},
	{Name: "bench.ops_per_s", Unit: "1/s", Better: higher},
}
