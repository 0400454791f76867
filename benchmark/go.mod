module misam/benchmark

go 1.22

require misam v0.0.0

replace misam => ../
