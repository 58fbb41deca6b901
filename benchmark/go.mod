module minerule/benchmark

go 1.22

require minerule v0.0.0

replace minerule => ../
