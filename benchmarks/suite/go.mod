module plsh/benchmarks/suite

go 1.24

require plsh v0.0.0

replace plsh => ../..
