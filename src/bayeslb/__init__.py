"""Information-theoretic lower bounds on Bayes risk in distributed estimation."""

__version__ = "0.1.0"
