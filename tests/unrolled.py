"""The linreg stack at one depth, as the plain layer tuple it runs."""

from newtonformer.builders import build_linreg_transformer


def linreg_stack(d, t, ridge_mu=0.0):
    """``prefix + body * t`` of the linreg stack, whose output row then
    holds the depth-t prediction, and the stack's layout."""
    layers, layout = build_linreg_transformer(d, ridge_mu=ridge_mu)
    return layers.prefix + layers.body * t, layout
