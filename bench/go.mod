module mdjoin/bench

go 1.22

require mdjoin v0.0.0

replace mdjoin => ../
