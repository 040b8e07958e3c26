module avgpipe/benchmark

go 1.22

require avgpipe v0.0.0

replace avgpipe => ../
