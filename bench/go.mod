module flowtime/bench

go 1.22

require flowtime v0.0.0

replace flowtime => ../
