module rxviewbench

go 1.24

require rxview v0.0.0

replace rxview => ../
