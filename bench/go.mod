module github.com/pseudo-honeypot/pseudohoneypot/bench

go 1.22

require github.com/pseudo-honeypot/pseudohoneypot v0.0.0

replace github.com/pseudo-honeypot/pseudohoneypot => ../
