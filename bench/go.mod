module ndlog/bench

go 1.24

require ndlog v0.0.0

replace ndlog => ../
