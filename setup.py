from setuptools import find_packages, setup

setup(
    name="repro-wnoc",
    version="1.8.0",
    description=(
        "Reproduction of 'Improving Performance Guarantees in Wormhole Mesh "
        "NoC Designs' (Panic et al., DATE 2016)"
    ),
    long_description=open("README.md", encoding="utf-8").read(),
    long_description_content_type="text/markdown",
    package_dir={"": "src"},
    packages=find_packages("src"),
    python_requires=">=3.8",
    install_requires=[
        "numpy",
    ],
    entry_points={
        "console_scripts": [
            "repro-experiments = repro.experiments.runner:main",
        ],
    },
    classifiers=[
        "Programming Language :: Python :: 3",
        "Topic :: Scientific/Engineering",
        "Intended Audience :: Science/Research",
    ],
)
