package core

// BiquadSource is the biquad cascade the canonical-ranking tests lower.
var BiquadSource = biquadSource(biquadDecls)
