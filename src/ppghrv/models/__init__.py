"""From-scratch regressors (dt, rf, knn, mlp), their random search, binary
codec and latency bench; callers import each submodule by name."""
