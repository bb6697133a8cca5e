module entityres/benchmark

go 1.24

require entityres v0.0.0

replace entityres => ../
