module fastnet/bench

go 1.22

require fastnet v0.0.0

replace fastnet => ../
