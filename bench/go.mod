module muppet/bench

go 1.24

require muppet v0.0.0

replace muppet => ../
