module sfp/cmd/sfpbench

go 1.22

require sfp v0.0.0

replace sfp => ../..
