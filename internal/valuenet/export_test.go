package valuenet

// RefPredict is the per-sample float64 reference network's cost prediction
// (reference_test.go), lent to the external tests.
var RefPredict = (*Network).refPredict
