module arthas/bench

go 1.22

require arthas v0.0.0

replace arthas => ../
