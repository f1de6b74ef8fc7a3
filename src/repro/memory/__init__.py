"""Memory / multi-tenancy extension."""

from .allocation import fits_in_memory, memory_in_use

__all__ = ["fits_in_memory", "memory_in_use"]
