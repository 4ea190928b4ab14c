"""Text features vs research-grant productivity: extraction, classification, relevance."""

from .complexity import extract_complexity_vector
from .corpus import label_records, load_corpus
from .ml import ComplexityFeatures, TfidfFeatures, cross_validate, relevance_over_resamples

__version__ = "0.1.0"
