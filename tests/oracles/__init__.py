"""Independent reference implementations the tests and benchmarks compare against."""
