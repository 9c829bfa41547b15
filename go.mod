module tanoq

go 1.22
