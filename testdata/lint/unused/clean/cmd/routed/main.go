package main

func unusedInMain() {}

func main() {}
