module ftsvm/bench

go 1.24

require ftsvm v0.0.0

replace ftsvm => ../
