module anybc/bench

go 1.22

require anybc v0.0.0

replace anybc => ../
