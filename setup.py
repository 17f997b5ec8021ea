from setuptools import find_packages, setup

setup(
    name="repro",
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    # The package is dependency-free.
)
