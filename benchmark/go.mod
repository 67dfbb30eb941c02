module sdsm/benchmark

go 1.22

require sdsm v0.0.0

replace sdsm => ../
