module nccd/benchmarks

go 1.22

require nccd v0.0.0

replace nccd => ../
