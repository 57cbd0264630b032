module github.com/anmat/anmat/bench

go 1.22

require github.com/anmat/anmat v0.0.0

replace github.com/anmat/anmat => ../
