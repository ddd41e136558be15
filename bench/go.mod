module dmap/bench

go 1.22

require dmap v0.0.0

replace dmap => ../
