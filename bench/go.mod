module lazyp/bench

go 1.22

require lazyp v0.0.0

replace lazyp => ../
