"""Reference implementations the equivalence tests compare the package against."""
