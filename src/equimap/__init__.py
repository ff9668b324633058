"""equimap: exact-arithmetic construction and certification of equivariant
polynomial self-maps of finite matrix groups, plus brute-force group
invariants and symbolic path families of polynomial automorphisms."""

__version__ = "0.1.0"
__all__ = ["__version__"]
